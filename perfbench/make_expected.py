"""Write the expected outputs that run.py compares against at default seeds.

    python3 perfbench/make_expected.py [WORKLOAD ...]

Runs every instance of each workload's corpus at its default seed once (the
corpus a run of ``run_seconds`` from BENCHMARK.json builds) and stores the summary the run compares (ledger rows and W ranks for the verify
workloads; verdicts, twist profile, W ranks and H(W) dimensions for
torus-sections) in ``perfbench/expected/<workload>.json``.  Rerun it only
when a change to the library is meant to change these values, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(names):
    run.import_library()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]()
        seed = workload.default_seed
        workdir = str(run.OUT_DIR / f"expected-{name}-{os.getpid()}")
        try:
            size = workload.corpus_size(spec["run_seconds"])
            corpus, _, _ = run.setup(workload, seed, workdir, size)
            outputs = []
            for inst in corpus:
                summary = workload.summarize(inst, workload.op(inst))
                problem = workload.check(inst, summary)
                if problem:
                    sys.exit(f"{name} instance {inst.index}: {problem}")
                outputs.append(summary)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = run.HERE / "expected" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        lines = ",\n".join(json.dumps(o, sort_keys=True) for o in outputs)
        path.write_text(f'{{"workload": "{name}", "seed": {seed}, '
                        f'"outputs": [\n{lines}\n]}}\n', encoding="utf-8")
        print(f"{path.relative_to(run.ROOT)}: {len(outputs)} outputs")


if __name__ == "__main__":
    main(sys.argv[1:])
