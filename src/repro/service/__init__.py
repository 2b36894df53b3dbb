"""Mapping-as-a-service: the run-time oracle in front of the pipeline.

The paper's pass is a compile-time component, but its natural deployment
(as in Paulino & Delgado's run-time decomposition work) is a long-running
oracle that programs query with a loop nest and a cache topology and get
a mapping back.  This package serves the full
tag -> affinity -> cluster -> balance -> schedule pipeline over HTTP/JSON
with nothing beyond the standard library:

* :mod:`repro.service.protocol` — request/response schema, content keys;
* :mod:`repro.service.engine` — pipeline + baseline execution per
  request, and the read of the disk tier (the plan store);
* :mod:`repro.service.admission` — bounded queue and worker pool;
* :mod:`repro.service.server` — the one HTTP stack (listener, routes,
  body checks, error mapping, reply cache, drain loop) and the
  single-process daemon on it (``repro serve``), with its content LRU;
* :mod:`repro.service.client` — the client API (``repro submit``), which
  the shard router also forwards through;
* :mod:`repro.service.hashring` — consistent hashing for shard routing;
* :mod:`repro.service.shard` — the multi-process sharded mode
  (``repro serve --workers N``): a front router on the same HTTP stack,
  forked workers, health-checked restarts, aggregated stats.

Quick start::

    from repro.service import MappingService, ServiceClient

    service = MappingService(port=0)   # ephemeral port, in-process caches
    service.start()
    client = ServiceClient(port=service.port)
    response = client.submit(source=SOURCE_TEXT, machine="dunnington")
    service.stop()

See ``docs/SERVICE.md`` for the protocol, the degradation semantics, and
the cache-tier behavior.
"""

from repro.service.client import ServiceClient
from repro.service.hashring import HashRing
from repro.service.protocol import (
    BadRequest,
    MappingRequest,
    Overloaded,
    ServiceError,
    Unavailable,
    parse_request,
)
from repro.service.server import MappingService, ServiceConfig
from repro.service.shard import ShardConfig, ShardService

__all__ = [
    "BadRequest",
    "HashRing",
    "MappingRequest",
    "MappingService",
    "Overloaded",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ShardConfig",
    "ShardService",
    "Unavailable",
    "parse_request",
]
