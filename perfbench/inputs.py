"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` seeded from the
``--seed`` argument: the same seed writes the same CSV files and the same
query tables.  The program under test only ever sees these generated
inputs.

Three kinds of lake are fabricated:

* the *kernel* lake: the paper's three seed sources (TPC-DI, Open Data,
  ChEMBL) cut by horizontal and vertical splits into overlapping
  candidates and query tables;
* the *wide* lake: a realistic cohort cut the same way, a cohort of
  ontology-neutral ``field_N`` tables with graded value overlap against
  their family's query (where the rerank cascade's bounds can skip), and
  value-disjoint filler;
* the *churn* lake: realistic tables plus the seeded per-round edits
  (changed cells, appended rows, one table added, one removed).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.csv_io import read_csv, write_csv
from repro.data.table import Table
from repro.datasets import chembl_assays_table, open_data_table, tpcdi_prospect_table
from repro.fabrication.splitting import split_horizontal, split_vertical

#: Each seed source with a fixed column order to project on.  Fixing which
#: columns (and so which types) a table carries keeps the matchers' work
#: alike across seeds, and the sources share no value vocabulary on these
#: columns, so a shortlist holds a query's own-source candidates.
SOURCES = (
    (tpcdi_prospect_table, (
        "last_name", "income", "address_line1", "agency_id",
        "age", "first_name", "phone", "net_worth",
    )),
    (open_data_table, (
        "vendor_name", "contract_value", "department_name", "record_id",
        "employee_count", "program_name", "officer_email", "budget_spent",
    )),
    (chembl_assays_table, (
        "target_name", "standard_value", "description", "assay_chembl_id",
        "publication_year", "organism", "journal", "confidence_score",
    )),
)
#: The paper's splits, at fixed overlaps so table shapes do not vary by seed.
ROW_OVERLAP = 0.5
COLUMN_OVERLAP = 0.75


@dataclass
class Lake:
    """CSV files of one lake on disk plus the query tables aimed at it."""

    csv_dir: Path
    queries: list[Table] = field(default_factory=list)
    #: Query name -> cohort label ("realistic" / "neutral"), where it matters.
    cohorts: dict[str, str] = field(default_factory=dict)

    @property
    def paths(self) -> list[Path]:
        return sorted(self.csv_dir.glob("*.csv"))

    def sizes(self) -> dict[str, int]:
        """Input sizes for the provenance record."""
        tables = [read_csv(path) for path in self.paths]
        return {
            "tables": len(tables),
            "rows": sum(table.num_rows for table in tables),
            "columns": sum(table.num_columns for table in tables),
            "queries": len(self.queries),
        }


def _source_base(source, rows: int, columns: int, rng: random.Random) -> Table:
    """One seed source with *rows* seeded rows and its first *columns* columns."""
    generate, order = source
    return generate(num_rows=rows, seed=rng.randrange(1 << 30)).project(order[:columns])


def _split_pair(
    base: Table, rows: int, rng: random.Random, query_name: str, candidate_name: str
) -> tuple[Table, Table]:
    """A query table and one overlapping candidate, cut as the paper does:
    a horizontal split with row overlap, then a vertical split of the
    candidate side so it shares only some columns."""
    horizontal = split_horizontal(base, ROW_OVERLAP, rng)
    query = horizontal.first.sample_rows(rows, rng, name=query_name)
    # Which columns a candidate keeps depends on its name, not the seed, so
    # its shape (and the matchers' work on it) is the same for every seed.
    shape = random.Random(zlib.crc32(candidate_name.encode()))
    vertical = split_vertical(horizontal.second, COLUMN_OVERLAP, shape)
    candidate = vertical.second.sample_rows(rows, rng, name=candidate_name)
    return query, candidate


def kernel_lake(
    root: Path,
    rng: random.Random,
    rows: int,
    columns: int,
    candidates_per_source: int,
    queries_per_source: int,
) -> Lake:
    """The realistic lake the eight matcher kernels are timed on: each of
    the three seed sources cut into overlapping candidates and query
    tables.  A query's shortlist is its own source's candidates."""
    lake = Lake(root)
    root.mkdir(parents=True)
    for index, source in enumerate(SOURCES):
        base = _source_base(source, rows * 4, columns, rng)
        for j in range(candidates_per_source):
            _, candidate = _split_pair(base, rows, rng, "unused", f"k{index}_{j}")
            write_csv(candidate, root / f"{candidate.name}.csv")
        for q in range(queries_per_source):
            query, _ = _split_pair(base, rows, rng, f"kq_{index}_{q}", "unused")
            lake.queries.append(query)
    return lake


def _neutral(
    name: str, rows: int, columns: int, value_of, prefix: str = "field"
) -> Table:
    """Columns named ``<prefix>_N``: SemProp forms no semantic links on
    ``field``-style names, so its admissible syntactic bound applies to
    every pair."""
    return Table(
        name,
        {f"{prefix}_{c}": [value_of(c, r) for r in range(rows)] for c in range(columns)},
    )


def _family_prefix(family: int) -> str:
    return f"field{chr(ord('a') + family)}"


def wide_lake(
    root: Path,
    rng: random.Random,
    tables: int,
    rows: int,
    columns: int,
    families: int,
    queries_per_cohort: int,
) -> Lake:
    """Three cohorts of about a third of *tables* each (see module doc);
    *families* (at most 3) neutral families and realistic sources."""
    lake = Lake(root)
    root.mkdir(parents=True)
    per_cohort = tables // 3
    # As many seed sources in the realistic cohort as neutral families, so
    # a realistic query's source is as deep as a neutral query's family.
    bases = [
        _source_base(source, rows * 6, columns + 2, rng)
        for source in SOURCES[:families]
    ]
    for i in range(per_cohort):
        base = bases[i % len(bases)]
        _, candidate = _split_pair(base, rows, rng, "unused", f"real_{i:04d}")
        write_csv(candidate, root / f"{candidate.name}.csv")
    for q in range(queries_per_cohort):
        base = bases[q % len(bases)]
        query, _ = _split_pair(base, rows, rng, f"wq_real_{q}", "unused")
        lake.queries.append(query)
        lake.cohorts[query.name] = "realistic"
    # Family f shares values v{f}_c_r with its query; table i of a family
    # keeps a graded share (1.0 down to 0.5) of them, so the top-k has real
    # contrast, every member outranks the filler in the LSH shortlist, and
    # the low-overlap tail and the filler fall provably below the cutoff.
    members = max(1, per_cohort // families)
    for i in range(per_cohort):
        family, rank = i % families, i // families
        keep = 1.0 - 0.5 * rank / members
        cut = int(rows * keep)
        table = _neutral(
            f"neutral_{i:04d}",
            rows,
            columns,
            lambda c, r, f=family, i=i, cut=cut: (
                f"v{f}_{c}_{r}" if r < cut else f"own{i}_{c}_{r}"
            ),
            _family_prefix(family),
        )
        write_csv(table, root / f"{table.name}.csv")
    for q in range(queries_per_cohort):
        family = q % families
        # The last column is the query's own, so no two queries are equal
        # (the daemon would coalesce concurrent equal requests).
        query = _neutral(
            f"wq_neutral_{q}",
            rows,
            columns,
            lambda c, r, f=family, q=q: (
                f"v{f}_{c}_{r}" if c < columns - 1 else f"q{q}_{r}"
            ),
            _family_prefix(family),
        )
        lake.queries.append(query)
        lake.cohorts[query.name] = "neutral"
    # Filler shares neither values nor column names with any query, so it
    # stays out of every shortlist.  Like a source's tables, a family's share
    # column names only among themselves, so both cohorts' shortlists are
    # one family or one source deep and their queries cost alike.
    for i in range(tables - 2 * per_cohort):
        table = _neutral(
            f"filler_{i:04d}", rows, columns, lambda c, r, i=i: f"junk{i}_{c}_{r}", "attr"
        )
        write_csv(table, root / f"{table.name}.csv")
    # Interleave the cohorts so any prefix of the query list is half/half.
    realistic = [q for q in lake.queries if lake.cohorts[q.name] == "realistic"]
    neutral = [q for q in lake.queries if lake.cohorts[q.name] == "neutral"]
    lake.queries = [q for pair in zip(realistic, neutral) for q in pair]
    return lake


@dataclass
class ChurnLake(Lake):
    """A realistic primary lake plus what its churn rounds draw from."""

    rows: int = 0
    bases: list[Table] = field(default_factory=list)
    next_table: int = 0


def churn_lake(
    root: Path, rng: random.Random, tables: int, rows: int, columns: int
) -> ChurnLake:
    lake = ChurnLake(root, rows=rows)
    root.mkdir(parents=True)
    lake.bases = [_source_base(source, rows * 6, columns, rng) for source in SOURCES]
    for _ in range(tables):
        _add_table(lake, rng)
    return lake


def _add_table(lake: ChurnLake, rng: random.Random) -> Table:
    """Write one new realistic table; returns a query cut from its own rows,
    which an up-to-date lake ranks it for."""
    index = lake.next_table
    lake.next_table += 1
    base = lake.bases[index % len(lake.bases)]
    _, candidate = _split_pair(base, lake.rows, rng, "unused", f"churn_{index:05d}")
    write_csv(candidate, lake.csv_dir / f"{candidate.name}.csv")
    return candidate.sample_rows(lake.rows // 2, rng, name=f"cq_{index:05d}")


def churn_round(
    lake: ChurnLake, rng: random.Random, changed_tables: int, appended_rows: int
) -> tuple[Table, list[str], str]:
    """Apply one round of seeded CSV edits to the primary lake on disk.

    Changes one cell in each of *changed_tables* tables, appends rows to
    one more, adds one table and removes one.  Returns ``(query, touched,
    removed)``: the query is cut from the added table's rows, *touched*
    names every changed, grown or added table.
    """
    paths = lake.paths
    victims = rng.sample(paths, changed_tables + 2)
    for path in victims[:changed_tables]:
        table = read_csv(path)
        data = table.to_dict()
        column = rng.choice(list(data))
        row = rng.randrange(table.num_rows)
        data[column][row] = f"edit_{rng.randrange(1 << 30)}"
        write_csv(Table(table.name, data), path)
    grown = read_csv(victims[changed_tables])
    base = lake.bases[int(grown.name.rsplit("_", 1)[1]) % len(lake.bases)]
    data = grown.to_dict()
    for _ in range(appended_rows):
        row = rng.randrange(base.num_rows)
        for column in data:
            data[column].append(base[column].values[row])
    write_csv(Table(grown.name, data), victims[changed_tables])
    removed = victims[changed_tables + 1]
    removed.unlink()
    query = _add_table(lake, rng)
    touched = [path.stem for path in victims[: changed_tables + 1]]
    touched.append(f"churn_{lake.next_table - 1:05d}")
    return query, touched, removed.stem
