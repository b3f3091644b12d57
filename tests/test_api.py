import l2alex


def test_every_export_resolves():
    missing = [name for name in l2alex.__all__
               if not hasattr(l2alex, name)]
    assert missing == []


def test_exports_are_unique():
    names = l2alex.__all__
    assert len(names) == len(set(names))
