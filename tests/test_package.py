import setcomplete


def test_every_public_name_resolves():
    missing = [name for name in setcomplete.__all__ if not hasattr(setcomplete, name)]
    assert not missing
