"""Regenerate the stored digests under reference/ from the current code.

    python3 perfbench/make_reference.py

Writes results_default.csv, trace_sha256.json and lossy_sha256.json. Run
it only when a change to occlusim deliberately changes its output, and say
why in that change. paper_table.json is transcribed from the README's
"Reference output" table and is not regenerated; run.py checks the stored
results against it.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from run import WORK_DIR, import_occlusim
from workloads import DEFAULT_SEED, REFERENCE_DIR, LossyChannel, TraceExport, sha256


def _run(cli, argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"occlusim {' '.join(argv)} exited {code}")


def main() -> None:
    cli, _ = import_occlusim()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workdir = Path(tmp)
        out = workdir / "results.csv"
        _run(cli, ["sweep", "--out", str(out)])
        (REFERENCE_DIR / "results_default.csv").write_bytes(out.read_bytes())

        traces = {}
        for job in TraceExport(DEFAULT_SEED, workdir).jobs:
            _run(cli, job.argv)
            traces[job.key] = sha256(Path(job.outputs[1]).read_bytes())
        (REFERENCE_DIR / "trace_sha256.json").write_text(
            json.dumps(dict(sorted(traces.items())), indent=1) + "\n", encoding="utf-8")

        lossy = LossyChannel(DEFAULT_SEED, workdir)
        digests = []
        for job in lossy.jobs:
            _run(cli, job.argv)
            digests.append(sha256(Path(job.outputs[0]).read_bytes()))
        (REFERENCE_DIR / "lossy_sha256.json").write_text(
            json.dumps({str(DEFAULT_SEED): digests}, indent=1) + "\n", encoding="utf-8")
    WORK_DIR.rmdir()


if __name__ == "__main__":
    main()
