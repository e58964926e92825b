"""A fixed CPU workload that measures how fast the host runs Python right now.

The benchmark runs this in a fresh interpreter next to every annoforge
command it times. On a shared host the speed of the CPU drifts by tens of
percent over minutes, and annoforge's CPU time drifts with it; the probe's
time, taken just before and after a command, says how fast the host was
during it. The probe does the same kinds of work as annoforge's commands
(interpreter start-up, ``json`` decoding and encoding, a character-level
parse, ``re`` matching, small objects in dicts) on a fixed input that does
not depend on the workload seed, and it imports nothing from annoforge, so
a change to annoforge never changes the probe.

Usage: python3 probe.py   (the caller times the whole process)
"""

from __future__ import annotations

import json
import random
import re

WORDS = """ba ko ri mel tan vor lis den fa gor hal jin ka lun mor nes pol quin ras
sel tor ul ven wes yar zan bri cal dor fen gil hov ith jor kel lam""".split()
CALL = re.compile(r"(\w+)\(name=\"([^\"]*)\"\)")


def build(rng: random.Random, n: int) -> str:
    lines = []
    for i in range(n):
        names = [" ".join(rng.choices(WORDS, k=3)).title() for _ in range(8)]
        lines.append(json.dumps({
            "id": f"p{i:05d}",
            "text": " ".join(rng.choices(WORDS, k=120)),
            "instances": "\n".join(f'Thing{j % 3}(name="{n}")' for j, n in enumerate(names)),
        }))
    return "\n".join(lines)


def scan(text: str) -> list[str]:
    """Character-level scan for double-quoted strings, as a notation parser does."""
    out, i, n = [], 0, len(text)
    while i < n:
        if text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            out.append(text[i + 1:j])
            i = j
        i += 1
    return out


def work(rounds: int = 6) -> int:
    data = build(random.Random(0), 600)
    total = 0
    for _ in range(rounds):
        by_class: dict[str, list[str]] = {}
        for line in data.splitlines():
            record = json.loads(line)
            for cls, name in CALL.findall(record["instances"]):
                by_class.setdefault(cls, []).append(name.lower())
            total += len(scan(record["instances"]))
            total += sum(record["text"].count(w) for w in WORDS[:4])
        total += len(json.dumps(by_class, sort_keys=True))
    return total


if __name__ == "__main__":
    work()
