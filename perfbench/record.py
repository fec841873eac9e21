"""Record the output digests that later runs are checked against.

    python3 perfbench/record.py FIRST_SEED LAST_SEED

For each workload and each seed in the range this writes the inputs, runs
one pass over them in this process, checks the outputs as run.py does, and
stores the digest of the pass in perfbench/digests.json.  Run it only on a
commit whose outputs are known to be right: the roadmap requires every
later commit to print byte-identical output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads
import worker


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    cli, _ = worker.load_program(run.ROOT)
    recorded = json.loads(run.DIGESTS.read_text())
    home = os.getcwd()
    for name in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            workdir = run.BENCH / "_work" / f"record-{name}-{seed}-{os.getpid()}"
            try:
                work = workloads.build(name, seed, "full", workdir)
                os.chdir(workdir)
                _, _, results = worker.run_pass(cli.main, work.manifest()["programs"])
            finally:
                os.chdir(home)
                shutil.rmtree(workdir, ignore_errors=True)
            digest = worker.pass_digest([worker.op_digest(r) for r in results])
            report = {"results": results, "passes": [{"digest": digest, "mismatched_ops": [], "traced": False}]}
            _, failed, problems = run.count_failures(work, report, None)
            if failed:
                print(f"{name} seed {seed}: outputs fail their checks, nothing recorded", *problems[:5], sep="\n  ")
                return 1
            recorded.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
            run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
