"""Campaign-as-a-service: a crash-surviving scheduler for scenario grids.

The batch CLI (``repro campaign``) runs one grid and exits; this
package keeps a pool of **persistent** worker processes warm and
schedules any number of submitted grids onto them.  An asyncio
scheduler shards each grid into work units, feeds them to workers over
``multiprocessing`` queues (workers keep their memoization caches and
warm per-topology simulation states across units *and* campaigns),
detects worker death and no-progress stalls, resubmits a dead or
stalled worker's in-flight unit under a retry budget, and journals every
finished scenario to per-worker **shard journals** in the campaign's
state directory.  The shards merge through the exact same
last-write-wins fold as the batch engine (``repro campaign --report
<campaign dir>``), so a grid that survived worker SIGKILLs and full
service restarts renders artifacts byte-identical to an uninterrupted
batch run.

Entry points: ``repro serve`` runs the service; ``repro submit`` /
``status`` / ``result`` talk to it over the small HTTP API
(:mod:`repro.service.httpapi`, stdlib-only); ``repro campaign
--workers N`` drives the scheduler in-process for one grid.
"""

from .scheduler import CampaignService, CampaignState, WorkUnit
from .spec import DEFAULT_SHARD_SIZE, CampaignSpec
from .client import ServiceClient, ServiceError

__all__ = [
    "CampaignService",
    "CampaignSpec",
    "CampaignState",
    "DEFAULT_SHARD_SIZE",
    "ServiceClient",
    "ServiceError",
    "WorkUnit",
]
