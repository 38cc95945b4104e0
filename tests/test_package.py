import ocagen


def test_all_names_resolve():
    # `from ocagen import *` fails on a stale entry
    assert len(ocagen.__all__) == len(set(ocagen.__all__))
    missing = [name for name in ocagen.__all__ if not hasattr(ocagen, name)]
    assert missing == []
    namespace = {}
    exec("from ocagen import *", namespace)
    assert set(ocagen.__all__) <= set(namespace)
