"""The ledger of published numbers: the data README and the acceptance
tests agree with it, and ``scripts/validate_instances.py`` reports it on
stdout alone."""

import re
import subprocess
import sys

import test_acceptance
from conftest import DATA

ROOT = DATA.parents[2]
LEDGER = test_acceptance.LEDGER


def test_readme_status_table_matches_the_ledger():
    # a table row reads `| name | **status** - ... |`
    rows = re.findall(r"^\| (\w+) +\| \*\*(.+?)\*\*", (DATA / "README.md").read_text(),
                      re.MULTILINE)
    assert dict(rows) == {name: entry["status"] for name, entry in LEDGER.items()}


def test_every_named_test_exists():
    named = {entry["optimum"]["test"] for entry in LEDGER.values()}
    named |= {cell["test"] for entry in LEDGER.values() for cell in entry["cells"]}
    for test in named - {None}:
        cls, method = test.split("::")
        assert callable(getattr(getattr(test_acceptance, cls), method)), test


def test_report_holds_one_line_per_entry_and_nothing_else():
    # bental4's squeeze solves MILPs that make HiGHS print to fd 1
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "validate_instances.py"),
                           "bental4"], capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stdout
    line = re.compile(r"bental4 +(\S+(?: obbt)?) +published +\S+ +ours +\S+ +"
                      r"(?:ok|DEVIATES: \S.*)")
    entries = [m.group(1) for m in map(line.fullmatch, proc.stdout.splitlines())
               if m is not None]
    assert len(entries) == len(proc.stdout.splitlines()), proc.stdout
    cells = LEDGER["bental4"]["cells"]
    assert entries == ["optimum"] + [c["label"] + " obbt" * c["obbt"] for c in cells]
