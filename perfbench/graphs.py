"""The graphs each workload runs on, built only through the public generators.

Both the benchmark process and the server launcher build graphs from here, so
the benchmark's own copy of a served graph (used by the correctness oracle) is
the same graph the server answers on.  The ``tiny`` profile exists for the
benchmark's self-test only.
"""

from __future__ import annotations

from repro.experiments import datasets
from repro.graph import generators

#: name -> (profile -> builder).  ``dblp-quarter`` is dblp-syn's recipe at a
#: quarter of the nodes (four BA(250, 3) communities joined by 125 bridges):
#: the same sparse, slow-mixing regime (lambda 0.968, engine misses of about
#: 45 ms), but the landmark-sketch rebuild inside every /update takes about
#: 0.25 s instead of about 7 s, so a served run fits the time budget and
#: holds many updates.
GRAPHS = {
    "dblp-syn": {
        "full": lambda: datasets.load_dataset("dblp-syn"),
        "tiny": lambda: generators.modular_social_graph(2, 120, 3, 24, rng=102),
    },
    "ba-2000-8": {
        "full": lambda: generators.barabasi_albert_graph(2000, 8, rng=1),
        "tiny": lambda: generators.barabasi_albert_graph(200, 8, rng=1),
    },
    "dblp-quarter": {
        "full": lambda: generators.modular_social_graph(4, 250, 3, 125, rng=102),
        "tiny": lambda: generators.modular_social_graph(2, 120, 3, 24, rng=102),
    },
}


def build_graph(name: str, size: str = "full"):
    """Build graph ``name`` from scratch (the dataset registry's memo is cleared)."""
    datasets.clear_dataset_cache()
    return GRAPHS[name][size]()
