import graphsl


def test_every_exported_name_resolves_once():
    assert len(graphsl.__all__) == len(set(graphsl.__all__))
    assert [name for name in graphsl.__all__ if not hasattr(graphsl, name)] == []
