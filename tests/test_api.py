import ebhess


def test_every_exported_name_resolves_once():
    names = ebhess.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(ebhess, name) is not None, name
