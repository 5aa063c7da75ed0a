"""Network serving layer: engines and the broker over HTTP.

The paper's architecture is inherently distributed — engines hold the
documents, the broker holds only representatives — and this package puts
that split on the wire with nothing beyond the standard library:

* :mod:`repro.serving.wire` — the JSON schema; round trips are exact.
* :mod:`repro.serving.engine_server` — one engine behind HTTP.
* :mod:`repro.serving.remote_engine` — clients; a :class:`RemoteEngine`
  plugs into the existing brokers unchanged.
* :mod:`repro.serving.gateway` — the broker behind bounded admission
  with load shedding and graceful drain.
* :mod:`repro.serving.coalesce` — continuous micro-batching: concurrent
  ``/estimate`` and ``/search`` requests coalesce into single broker
  batch calls (enable with the gateway's ``coalesce_window`` /
  ``--coalesce-window-ms``).
* :mod:`repro.serving.http` — the shared server substrate (deadlines,
  body limits, metrics, drain); the deadline scope itself is
  :mod:`repro.metasearch.deadlines`, re-exported here.
* :mod:`repro.serving.shard_worker` — one shard of a partitioned fleet:
  its engines' representatives, targeted dispatch and deltas.
* :mod:`repro.serving.coordinator` — the broker over shard workers: local
  estimates from representatives read off the shards, dispatch to the
  owning shards; :class:`CoordinatorApp` is the gateway served over a
  :class:`ShardedFleet`.

Every role is served by the one threaded stdlib frontend: start servers
with ``repro serve engine|gateway|shard|coordinator ...`` or
programmatically via :class:`ServingServer`.
"""

from repro.metasearch.deadlines import (
    DEADLINE_HEADER,
    Deadline,
    ambient_deadline,
    deadline_scope,
    detached_deadline_scope,
)
from repro.serving.admission import AdmissionQueue
from repro.serving.coalesce import (
    CoalesceClosed,
    CoalesceExpired,
    CoalescingWindow,
)
from repro.serving.coordinator import CoordinatorApp, ShardedFleet
from repro.serving.engine_server import EngineApp, LiveEngineApp
from repro.serving.gateway import GatewayApp
from repro.serving.http import HTTPError, Response, ServingApp, ServingServer
from repro.serving.remote_engine import (
    GatewayClient,
    RemoteEngine,
    RemoteServingError,
    RemoteTimeout,
)
from repro.serving.shard_worker import ShardApp
from repro.serving.wire import (
    WireFormatError,
    decode_hits,
    encode_hits,
    estimate_from_wire,
    estimate_row_from_wire,
    estimate_row_to_wire,
    estimate_to_wire,
    failure_from_wire,
    failure_to_wire,
    query_from_wire,
    query_to_wire,
    response_from_wire,
    response_to_wire,
    usefulness_from_wire,
    usefulness_to_wire,
)

__all__ = [
    "AdmissionQueue",
    "CoalesceClosed",
    "CoalesceExpired",
    "CoalescingWindow",
    "CoordinatorApp",
    "DEADLINE_HEADER",
    "Deadline",
    "EngineApp",
    "GatewayApp",
    "GatewayClient",
    "HTTPError",
    "LiveEngineApp",
    "RemoteEngine",
    "RemoteServingError",
    "RemoteTimeout",
    "Response",
    "ServingApp",
    "ServingServer",
    "ShardApp",
    "ShardedFleet",
    "WireFormatError",
    "ambient_deadline",
    "deadline_scope",
    "decode_hits",
    "detached_deadline_scope",
    "encode_hits",
    "estimate_from_wire",
    "estimate_row_from_wire",
    "estimate_row_to_wire",
    "estimate_to_wire",
    "failure_from_wire",
    "failure_to_wire",
    "query_from_wire",
    "query_to_wire",
    "response_from_wire",
    "response_to_wire",
    "usefulness_from_wire",
    "usefulness_to_wire",
]
