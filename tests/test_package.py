import bootgrid


def test_star_import_binds_every_name_in_all_once():
    names = {}
    exec("from bootgrid import *", names)
    assert len(set(bootgrid.__all__)) == len(bootgrid.__all__)
    for name in bootgrid.__all__:
        assert names[name] is getattr(bootgrid, name)
