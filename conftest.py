"""Root conftest: its presence puts the repository root on ``sys.path``, so
test modules can import the reference implementations in ``tests/oracles/``
under a bare ``pytest`` run as well as ``python -m pytest``."""
