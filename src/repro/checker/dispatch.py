"""Pipeline registry and the ``auto`` alias.

One authoritative list of checking pipelines, consumed by the CLI
subparsers (run/check/suite/serve), the runner's validation and the
argparse-introspection test — the registry exists so help text, choices
and docs cannot drift apart again.

``auto`` is kept as an accepted spelling for one more round.  It
resolves to ``packed``, the graph-family fast path, except under
``observed`` ws-mode, where only ``graphs`` can check (the other
pipelines require graphs to be a pure function of the signature).
"""

from __future__ import annotations

#: every batch checking pipeline `check_campaign_result` accepts
PIPELINES = ("graphs", "delta", "packed", "poly", "auto")
#: pipelines the streaming daemon can finalize with (the legacy graphs
#: path never streams: it materializes every graph up front)
SERVE_PIPELINES = ("delta", "packed", "poly", "auto")
#: dynamic cross-oracles `--cross-check` can run after checking
CROSS_CHECKS = ("feasible", "poly")


def choose_pipeline(ws_mode: str = "static") -> str:
    """The concrete pipeline ``auto`` stands for under ``ws_mode``."""
    return "graphs" if ws_mode == "observed" else "packed"
