import fxcorr


def test_every_exported_name_resolves():
    missing = [name for name in fxcorr.__all__ if not hasattr(fxcorr, name)]
    assert missing == []
