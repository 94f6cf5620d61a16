"""The repo's performance ledger: one harness, five workloads, one schema.

Run from the repository root::

    python3 -m ledger run                     # end-to-end metrics, all workloads
    python3 -m ledger run --trace             # per-layer metrics + Chrome traces
    python3 -m ledger compare a.json b.json   # apply each metric's bound
    python3 -m ledger aa                      # two runs of one checkout must agree

``BENCHMARK.json`` at the repository root declares every metric this
package emits; ``ledger/README.md`` explains them.  The package drives
``repro`` through public entry points only and imports neither numpy nor
repro until the BLAS thread pins are in place (see :mod:`ledger.env`).
"""
