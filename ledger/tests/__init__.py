"""Self-tests of the ledger harness; run with ``python -m pytest ledger/tests``."""
