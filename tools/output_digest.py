"""One SHA-256 over every output the benchmark ops produce.

Run as `python tools/output_digest.py` (no options).  It imports `equilib`
from the `src/` of this checkout and the op generator and runners from its
`bench/`, generates the warm-up ops and one pass of ops of every workload
for seeds 1 and 104729 into a temporary directory, and calls each op once.
It prints the number of calls and one digest over the `repr` of each
result, the stdout each call wrote and the bytes of every output file, then
one line per workload with the digest of that workload's calls alone.

Two checkouts print the same digest exactly when every library result and
every CLI byte the benchmark sees is the same, so a change meant to keep
the outputs can be checked by running this at both commits; the workload
lines tell which workload a moved byte belongs to.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 104729)


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import inputs
    import ops

    digest = hashlib.sha256()
    workloads = {workload: hashlib.sha256() for workload in inputs.WORKLOADS}
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload, part in workloads.items():
            for seed in SEEDS:
                spec = inputs.generate(workload, seed, Path(tmp))
                for op in spec["warmup"] + spec["ops"]:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        result = ops.PREPARE[op["kind"]](op).call()
                    calls += 1
                    chunks = [repr(result).encode(), out.getvalue().encode()]
                    for path in op.get("outputs", {}).values():
                        file = Path(path)
                        chunks.append(file.read_bytes() if file.exists() else b"<missing>")
                        file.unlink(missing_ok=True)
                    for chunk in chunks:
                        digest.update(chunk)
                        part.update(chunk)
    print(f"{calls} calls")
    print(digest.hexdigest())
    for workload, part in workloads.items():
        print(f"{workload} {part.hexdigest()}")


if __name__ == "__main__":
    main()
