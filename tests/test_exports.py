import bergman


def test_star_import_resolves_every_export():
    ns = {}
    exec("from bergman import *", ns)
    assert len(bergman.__all__) == len(set(bergman.__all__))
    for name in bergman.__all__:
        assert ns[name] is getattr(bergman, name), name
