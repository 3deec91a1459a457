"""The served, concurrent session layer over one LabBase.

The paper's Section 10 usability headline — ObjectStore "offers
concurrent access with lock based concurrency control implemented in a
page server" — becomes runnable here: N clients drive workflow sessions
against one storage manager through a socket server, with per-session
page locking, queued waits with bounded retry, and **group commit**
batching concurrently-arriving session commits into one vectored flush.

Decomposition (see DESIGN.md §13):

* :mod:`~repro.server.communicator` — requests and responses as
  length-prefixed binary frames (a fixed layout per workflow op, one
  tagged plain-data value otherwise), the frame buffer a non-blocking
  reader takes them off, and the blocking client end
  (:class:`Channel`);
* :mod:`~repro.server.service_runner` — the deterministic synchronous
  service core (:class:`LabFlowService`) and the socket front-end
  (:class:`ServiceRunner`): one event-loop thread for every connection,
  answering each ``recv``'s complete frames in order with one ``send``,
  and the one thread the service answers while it runs;
* :mod:`~repro.server.commit` — the group-commit coordinator;
* :mod:`~repro.server.client_runner` — client proxies and the scripted
  deterministic mix used by the CI smoke run and bench_a6.
"""

from repro.server.commit import DEFAULT_GROUP_CAP, CommitCoordinator
from repro.server.communicator import (
    Channel,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.server.client_runner import (
    ClientRunner,
    LocalClient,
    ServiceClient,
    bootstrap_schema,
    run_concurrent_clients,
)
from repro.server.service_runner import (
    DEFAULT_MAX_RETRIES,
    LabFlowService,
    ServiceRunner,
    apply_request,
)

__all__ = [
    "CommitCoordinator",
    "DEFAULT_GROUP_CAP",
    "DEFAULT_MAX_RETRIES",
    "Channel",
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "LabFlowService",
    "ServiceRunner",
    "apply_request",
    "ClientRunner",
    "LocalClient",
    "ServiceClient",
    "bootstrap_schema",
    "run_concurrent_clients",
]
