"""bench/ladder.py writes BENCH documents with the keys README lists."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
KEYS = {"sha", "dirty", "python", "machine", "cases"}
CASE_KEYS = {"name", "runs", "best_s", "times_s"}


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "bench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_runs_its_cheapest_case_once(tmp_path):
    ladder = load_ladder()
    case = next(c for c in ladder.CASES if c.name == "degree_census ell 2..20")._replace(runs=1)
    path = tmp_path / "BENCH_000.json"
    ladder.write(path, [case])
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == KEYS
    assert set(doc["machine"]) == {"system", "machine", "processor", "cpus"}
    [entry] = doc["cases"]
    assert set(entry) == CASE_KEYS
    assert entry["name"] == case.name and entry["runs"] == 1
    assert entry["best_s"] == entry["times_s"][0] > 0


def test_committed_bench_files_keep_the_schema():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc) == KEYS, path.name
        for entry in doc["cases"]:
            assert set(entry) == CASE_KEYS and entry["best_s"] == min(entry["times_s"])
