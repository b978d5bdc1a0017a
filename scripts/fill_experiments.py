#!/usr/bin/env python3
"""Patches EXPERIMENTS.md placeholders from repro_all_output.txt.

Usage: python3 scripts/fill_experiments.py

Fills every MEAS_* placeholder whose section the output file contains
(a `repro all` run cut short still fills what it got to), lists the
ones it could not find, and exits non-zero only if it filled nothing.
A filled placeholder is gone, so a second run has only the rest to do.
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
out = (ROOT / "repro_all_output.txt").read_text()
exp_path = ROOT / "EXPERIMENTS.md"
exp = exp_path.read_text()


class Missing(Exception):
    """The output file does not hold what a placeholder needs."""


def section(title):
    m = re.search(rf"=== {re.escape(title)}[^\n]*===\n(.*?)(?=\n=== |\Z)", out, re.S)
    if not m:
        raise Missing(f"section not found: {title}")
    return m.group(1).strip("\n")


def fig_row(title, ef):
    for line in section(title).splitlines():
        m = re.match(r"\s*(\d+) \|", line)
        if m and int(m.group(1)) == ef:
            # The split drops the ef column; a cell is "latency recall".
            return " | ".join(" ".join(c.split()) for c in line.split("|")[1:-1])
    raise Missing(f"ef={ef} row not found in {title}")


def fig_summary(title):
    for line in section(title).splitlines():
        if line.startswith("summary:"):
            return line[len("summary:"):].strip()
    raise Missing(f"summary not found in {title}")


def table_block(title):
    lines = [l for l in section(title).splitlines() if l.strip()]
    if len(lines) < 4:
        raise Missing(f"fewer than three scheme rows in {title}")
    # header + 3 scheme rows -> markdown table
    hdr = ["Scheme", "Network", "Sub-HNSW", "Meta-HNSW", "trips/query", "recall"]
    md = ["| " + " | ".join(hdr) + " |", "|" + "---|" * len(hdr)]
    for l in lines[1:4]:
        parts = l.split()
        # scheme name may contain spaces; last 5 fields are numeric
        name = " ".join(parts[:-5])
        md.append("| " + " | ".join([name] + parts[-5:]) + " |")
    return "\n".join(md)


def verbatim(title):
    body = section(title)
    # No section filled verbatim is the last of `repro all`, so one that
    # runs to the end of the file was cut short mid-table.
    if out.rstrip("\n").endswith(body):
        raise Missing(f"cut short: {title}")
    return "```text\n" + body + "\n```"


FIG6A = "Fig 6(a): SIFT, top-10"
PLACEHOLDERS = [
    ("MEAS_6A_1", lambda: fig_row(FIG6A, 1)),
    ("MEAS_6A_8", lambda: fig_row(FIG6A, 8)),
    ("MEAS_6A_48", lambda: fig_row(FIG6A, 48)),
    ("MEAS_6A_SUMMARY", lambda: fig_summary(FIG6A)),
    ("MEAS_6B_SUMMARY", lambda: fig_summary("Fig 6(b): SIFT, top-1")),
    ("MEAS_6C_SUMMARY", lambda: fig_summary("Fig 6(c): GIST, top-10")),
    ("MEAS_6D_SUMMARY", lambda: fig_summary("Fig 6(d): GIST, top-1")),
    ("MEAS_TABLE1", lambda: table_block("Table 1: SIFT1M@1, efSearch 48")),
    ("MEAS_TABLE2", lambda: table_block("Table 2: GIST1M@1, efSearch 48")),
    ("MEAS_METASIZE", lambda: verbatim("Meta-HNSW footprint (paper: 0.373 MB SIFT1M, 1.960 MB GIST1M)")),
    ("MEAS_DOORBELL", lambda: verbatim("Ablation: doorbell batch limit (§3.2 NIC-scalability tradeoff)")),
    ("MEAS_CACHE", lambda: verbatim("Ablation: compute-side cache fraction (§3.3, paper uses 10%)")),
    ("MEAS_ZIPF", lambda: verbatim("Ablation: cache under Zipf query skew (hot partitions stay resident)")),
    ("MEAS_FANOUT", lambda: verbatim("Ablation: partitions probed per query (fan-out b)")),
    ("MEAS_REPS", lambda: verbatim("Ablation: representative count (paper fixes 500)")),
]

filled, missing = [], []
for tag, value in PLACEHOLDERS:
    if not re.search(rf"{tag}\b", exp):
        continue
    try:
        exp = re.sub(rf"{tag}\b", lambda _m, v=value(): v, exp)
        filled.append(tag)
    except Missing as why:
        missing.append(f"{tag} ({why})")

for line in missing:
    print(f"not filled: {line}", file=sys.stderr)
if not filled:
    sys.exit("fill_experiments.py: nothing filled")
exp_path.write_text(exp)
print(f"EXPERIMENTS.md: filled {len(filled)} ({', '.join(filled)}), {len(missing)} left")
