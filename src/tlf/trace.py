"""Per-iteration convergence records and their stable CSV serialization."""

import io
import math
from dataclasses import dataclass, field, fields

CSV_HEADER = "k,F,rel_err,norm_xF_x,norm_xG_x,norm_xGmu_x,alpha,mu,mdus_branch,bus_branch,psnr"

MDUS_ACCEPTED = "accepted-v"
MDUS_FALLBACK = "fell-back-xF"
MDUS_KEPT = "kept-layers"  # derain only: both layers left unchanged
# mdus_branch by the index of the point MDUS chose: v, then its fallbacks
MDUS_BRANCHES = (MDUS_ACCEPTED, MDUS_FALLBACK, MDUS_KEPT)
BUS_ACCEPTED = "accepted-z"
BUS_FALLBACK = "fell-back-xG"
BUS_NA = "not-applicable"


@dataclass
class TraceRecord:
    """One iteration; a solver step leaves rel_err to the iteration driver.

    The field order is the CSV column order of CSV_HEADER.
    """

    k: int
    F_value: float
    rel_err: float = math.nan
    norm_xF_x: float = math.nan
    norm_xG_x: float | None = None
    norm_xGmu_x: float | None = None
    alpha: float | None = None
    mu: float | None = None
    mdus_branch: str | None = None
    bus_branch: str | None = None
    psnr: float | None = None


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


@dataclass
class IterateTrace:
    """Ordered per-iteration records for one solve."""

    initial_F: float = 0.0
    records: list = field(default_factory=list)

    def append(self, record: TraceRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def F_values(self):
        return [r.F_value for r in self.records]

    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_csv(self) -> str:
        """CSV_HEADER, then one row per record: TraceRecord's fields in order."""
        names = [f.name for f in fields(TraceRecord)]
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.records:
            buf.write(",".join(_fmt(getattr(r, name)) for name in names) + "\n")
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())
