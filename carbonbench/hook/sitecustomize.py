"""Start-up hook for traced runs.

Python imports ``sitecustomize`` at interpreter start.  The benchmark puts
this directory on ``PYTHONPATH`` only for traced runs, together with the
trace directory in ``CARBONBENCH_TRACE_DIR``; every process of the program
(training job, pool workers, router, shards) then records spans, because
spawned children inherit the environment.
"""

import os

if os.environ.get("CARBONBENCH_TRACE_DIR"):
    import cbtrace

    cbtrace.install(os.environ["CARBONBENCH_TRACE_DIR"])
