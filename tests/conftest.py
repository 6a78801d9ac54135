import pytest


def pytest_collection_modifyitems(items):
    """Refuse a test class collected from a module that imported it: pytest would
    run the whole class again there, under a second id."""
    imported = [item.nodeid for item in items
                if item.cls is not None and item.cls.__module__ != item.module.__name__]
    if imported:
        raise pytest.UsageError("test classes collected outside the module that defines "
                                "them; import the module instead:\n  " + "\n  ".join(imported))
