"""Checking as a service: the resident streaming-campaign daemon.

The paper's flow is batch-shaped — run a campaign, ship the signature
dump, check it — but post-silicon validation at production volume is a
stream: every test run on silicon emits one more signature, and
collective checking cost is dominated by *novel* interleavings.  This
package turns the batch pipeline into infrastructure:

* :mod:`~repro.serve.protocol` — length-prefixed JSON frames and the
  :data:`~repro.serve.protocol.MESSAGE_KINDS` registry (generates
  ``docs/SERVE_PROTOCOL.md``);
* :mod:`~repro.serve.dedup` — the cross-client signature-dedup store:
  repeat interleavings cost O(1) no matter which client saw them first;
* :mod:`~repro.serve.session` — one client's campaign: arrival-order
  incremental checking (:class:`~repro.checker.stream.
  StreamingCollectiveChecker`) for live acks, canonical batch replay at
  drain for a report byte-identical to ``repro run``;
* :mod:`~repro.serve.daemon` — the asyncio ingest daemon: bounded
  queues with explicit ``busy`` backpressure, graceful SIGTERM drain,
  crash-isolated session teardown;
* :mod:`~repro.serve.client` — the blocking submit client behind
  ``repro submit``.

Everything imports lazily (the daemon pulls in asyncio machinery no
batch run needs).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serve.protocol": ("MESSAGE_KINDS", "PROTOCOL_VERSION",
                             "ProtocolError", "protocol_markdown"),
    "repro.serve.dedup": ("SignatureDedupStore", "campaign_key"),
    "repro.serve.session": ("CampaignSession", "SessionReport"),
    "repro.serve.daemon": ("ServeConfig", "ServeDaemon", "serve_forever"),
    "repro.serve.client": ("ServeClient", "submit_campaign"),
})
