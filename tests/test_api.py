import brightpath


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted raises here.
    for name in brightpath.__all__:
        getattr(brightpath, name)
