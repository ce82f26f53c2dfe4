"""Seeded generator of CSE-CIC-IDS2018-shaped flow CSVs.

Each file has the CICFlowMeter column set: 78 numeric flow columns (two of
them constant), a `Timestamp`, a text `Service` column, and `Label`.
Cells the cleaner must reject are planted on purpose: `Infinity` and `NaN`
rates, negative window sizes, and verbatim repeated header lines.

Every feature carries a fixed, graded amount of signal per attack: with
probability `strength` an attack row draws the feature from a narrow band
above the bounded benign range, otherwise from the benign distribution. The
strengths fall off in SIGNAL_TIERS tiers over a fixed per-attack feature
order, so the mean filter score spreads over [0, 1] and each threshold of a
grid selects its own subset. Only the noise depends on the seed; the signal
layout and value ranges do not, which keeps the selected subsets, and so the
work per run, nearly the same from seed to seed.

The same (spec, seed) always gives byte-identical files.
"""

import zlib

import numpy as np

NUMERIC_COLUMNS = (
    "Dst Port", "Protocol", "Flow Duration", "Tot Fwd Pkts", "Tot Bwd Pkts",
    "TotLen Fwd Pkts", "TotLen Bwd Pkts", "Fwd Pkt Len Max", "Fwd Pkt Len Min",
    "Fwd Pkt Len Mean", "Fwd Pkt Len Std", "Bwd Pkt Len Max", "Bwd Pkt Len Min",
    "Bwd Pkt Len Mean", "Bwd Pkt Len Std", "Flow Byts/s", "Flow Pkts/s",
    "Flow IAT Mean", "Flow IAT Std", "Flow IAT Max", "Flow IAT Min",
    "Fwd IAT Tot", "Fwd IAT Mean", "Fwd IAT Std", "Fwd IAT Max", "Fwd IAT Min",
    "Bwd IAT Tot", "Bwd IAT Mean", "Bwd IAT Std", "Bwd IAT Max", "Bwd IAT Min",
    "Fwd PSH Flags", "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags",
    "Fwd Header Len", "Bwd Header Len", "Fwd Pkts/s", "Bwd Pkts/s",
    "Pkt Len Min", "Pkt Len Max", "Pkt Len Mean", "Pkt Len Std", "Pkt Len Var",
    "FIN Flag Cnt", "SYN Flag Cnt", "RST Flag Cnt", "PSH Flag Cnt",
    "ACK Flag Cnt", "URG Flag Cnt", "CWE Flag Count", "ECE Flag Cnt",
    "Down/Up Ratio", "Pkt Size Avg", "Fwd Seg Size Avg", "Bwd Seg Size Avg",
    "Fwd Byts/b Avg", "Fwd Pkts/b Avg", "Fwd Blk Rate Avg", "Bwd Byts/b Avg",
    "Bwd Pkts/b Avg", "Bwd Blk Rate Avg", "Subflow Fwd Pkts",
    "Subflow Fwd Byts", "Subflow Bwd Pkts", "Subflow Bwd Byts",
    "Init Fwd Win Byts", "Init Bwd Win Byts", "Fwd Act Data Pkts",
    "Fwd Seg Size Min", "Active Mean", "Active Std", "Active Max",
    "Active Min", "Idle Mean", "Idle Std", "Idle Max", "Idle Min",
)
CONSTANT_COLUMNS = ("Bwd PSH Flags", "Fwd Byts/b Avg")
NON_FINITE_COLUMNS = ("Flow Byts/s", "Flow Pkts/s")
NEGATIVE_COLUMN = "Init Fwd Win Byts"
SERVICES = ("dns", "ftp", "http", "https", "smtp", "ssh")
HEADER = ("Dst Port", "Protocol", "Timestamp") + NUMERIC_COLUMNS[2:] + ("Service", "Label")

BENIGN = "Benign"
INFINITY_RATE = 0.003
NAN_RATE = 0.002
NEGATIVE_RATE = 0.004
REPEATED_HEADERS = 3
BENIGN_SPAN = 0.5  # benign values stay below this share of a feature's scale
SIGNAL_TIERS = (0.95, 0.85, 0.72, 0.6, 0.48, 0.36, 0.24, 0.12, 0.0)


def _label_seed(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


def _signal_layout(label: str) -> dict[str, float]:
    """Fixed per-attack strength of every varying feature, in SIGNAL_TIERS tiers."""
    varying = [c for c in NUMERIC_COLUMNS if c not in CONSTANT_COLUMNS] + ["Service"]
    order = np.random.default_rng(_label_seed(label)).permutation(len(varying))
    tier = np.arange(len(varying)) * len(SIGNAL_TIERS) // len(varying)
    return {varying[i]: SIGNAL_TIERS[t] for i, t in zip(order, tier)}


def _scale(name: str) -> float:
    return 10.0 ** (1 + zlib.crc32(name.encode("utf-8")) % 5)


def _format(name: str, values: np.ndarray) -> list[str]:
    if "Mean" in name or "Std" in name or "/s" in name or "Avg" in name or "Var" in name:
        return np.round(values, 3).astype(str).tolist()
    return np.floor(values).astype(np.int64).astype(str).tolist()


def _file_rows(rng, labels: np.ndarray, layouts: dict[str, dict[str, float]],
               first_second: int) -> list[str]:
    n = len(labels)
    cells: dict[str, list[str]] = {}
    for name in NUMERIC_COLUMNS:
        if name in CONSTANT_COLUMNS:
            cells[name] = ["0"] * n
            continue
        scale = _scale(name)
        values = scale * BENIGN_SPAN * rng.beta(2.0, 5.0, size=n)
        for attack, layout in layouts.items():
            rows = np.flatnonzero(labels == attack)
            hit = rows[rng.random(rows.size) < layout[name]]
            # a narrow band above the benign range, placed per attack and feature
            centre = scale * (0.6 + 0.3 * (_label_seed(attack + name) % 100) / 100)
            values[hit] = rng.normal(centre, scale * 0.02, size=hit.size)
        cells[name] = _format(name, values)

    service = rng.integers(0, len(SERVICES), size=n)
    for attack, layout in layouts.items():
        rows = np.flatnonzero(labels == attack)
        hit = rows[rng.random(rows.size) < layout["Service"]]
        service[hit] = _label_seed(attack) % len(SERVICES)
    cells["Service"] = [SERVICES[i] for i in service]

    for name in NON_FINITE_COLUMNS:
        u = rng.random(n)
        for i in np.flatnonzero(u < INFINITY_RATE):
            cells[name][i] = "Infinity"
        for i in np.flatnonzero((u >= INFINITY_RATE) & (u < INFINITY_RATE + NAN_RATE)):
            cells[name][i] = "NaN"
    for i in np.flatnonzero(rng.random(n) < NEGATIVE_RATE):
        cells[NEGATIVE_COLUMN][i] = "-1"

    seconds = first_second + np.arange(n) // 4
    cells["Timestamp"] = [f"14/02/2018 {8 + s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}"
                          for s in seconds.tolist()]
    cells["Label"] = labels.tolist()
    return [",".join(row) for row in zip(*(cells[c] for c in HEADER))]


def write_inputs(files, seed: int, out_dir) -> int:
    """Write one CSV per entry of `files`; return the number of data rows.

    `files` is a list of (file name, rows, {label: share}) triples; the share
    of the benign label is whatever the attack shares leave.
    """
    rng = np.random.default_rng(seed)
    attacks = sorted({a for _, _, shares in files for a in shares})
    layouts = {a: _signal_layout(a) for a in attacks}
    header = ",".join(HEADER)
    total = 0
    first_second = 0
    for name, rows, shares in files:
        counts = {a: max(2, round(rows * s)) for a, s in shares.items()}
        labels = np.array([BENIGN] * (rows - sum(counts.values()))
                          + [a for a, c in counts.items() for _ in range(c)], dtype=object)
        labels = labels[rng.permutation(rows)]
        lines = _file_rows(rng, labels, layouts, first_second)
        first_second += rows // 4 + 1
        cuts = sorted(rng.choice(np.arange(1, rows), size=REPEATED_HEADERS, replace=False))
        for k, cut in enumerate(cuts):
            lines.insert(cut + k, header)
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            fh.write("\n".join(lines) + "\n")
        total += rows
    return total
