import bivirus


def test_every_exported_name_resolves():
    missing = [name for name in bivirus.__all__
               if not hasattr(bivirus, name)]
    assert missing == []
