"""Estimation playground: why optimizers carry histograms and MCV lists.

Loads a table with uniform, Zipf-skewed and correlated columns, then shows
— predicate by predicate — what each estimator tier guesses versus the
true row count.  This is experiment E6 in interactive form.

Run with::

    python examples/estimation_playground.py
"""

from repro.bench.e6_estimation import (
    TIERS,
    _estimate_with,
    load_skew_tables,
    make_queries,
)
from repro.bench.measure import fresh_db
from repro.obs.querylog import q_error


def main() -> None:
    db = fresh_db(buffer_pages=256, work_mem_pages=16)
    num_rows, domain = 12000, 200
    load_skew_tables(db, num_rows=num_rows, domain=domain, seed=23)
    print(f"table 'skewed': {num_rows} rows, value domain {domain}")
    print("columns: uni (uniform), zipf (skew 1.1), ca/cb (95% correlated)\n")

    header = f"{'predicate':24s} {'actual':>8s}"
    for tier in TIERS:
        header += f" | {tier:>9s} (q-err)"
    print(header)
    print("-" * len(header))

    for label, sql in make_queries(domain):
        actual = float(db.query(sql).rows[0][0])
        line = f"{label:24s} {actual:8.0f}"
        for tier, config in TIERS.items():
            est = _estimate_with(db, sql, config)
            line += f" | {est:9.0f} ({q_error(est, actual):5.1f})"
        print(line)

    print(
        "\nReading: q-error 1.0 is a perfect estimate."
        "\n  * 'point on zipf head' — only the MCV tier survives skew."
        "\n  * 'range on zipf'      — histograms fix ranges."
        "\n  * 'conjunct correlated'— nothing fixes the independence"
        " assumption; this is the estimator's classic blind spot."
    )


if __name__ == "__main__":
    main()
