"""Command-line interface.

    crahn-sim run --scenario S --experiment {detection,spectrum,discovery,all}
                  [--seed N] [--replications K] --out DIR
    crahn-sim validate --scenario S [--experiment {detection,spectrum,discovery,all}]
    crahn-sim render-situation --db RECORDS.csv --out FILE

`--seed` and `--replications` replace the scenario's values: they are held
to the scenario's rules before anything is written, and each report's
`config` records them. `validate` applies the checks that `run` makes
before it runs `--experiment` (default `all`).

Exit codes: 0 ok, 1 configuration error, 2 runtime error (including a `run`
in which any replication failed; its outputs are still written).
"""

import argparse
import csv
import json
import sys

from .experiments import EXPERIMENTS, check_runnable, experiment_names, run_experiment
from .scenario import ScenarioError, load_scenario
from .situation import (SituationDb, SituationRecord, SituationValidationError,
                        situation_table_csv, situation_table_text)

RECORD_FIELDS = ["latitude", "longitude", "situation", "timestamp",
                 "short_message", "long_message", "ontology"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crahn-sim",
        description="Disaster-response CRAHN simulator: detection, spectrum, discovery")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment suite")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--experiment", default="all",
                       choices=list(EXPERIMENTS) + ["all"])
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--replications", type=int, default=None)
    run_p.add_argument("--out", required=True)

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("--scenario", required=True)
    val_p.add_argument("--experiment", default="all",
                       choices=list(EXPERIMENTS) + ["all"])

    ren_p = sub.add_parser("render-situation",
                           help="render a situation database CSV as a table")
    ren_p.add_argument("--db", required=True)
    ren_p.add_argument("--out", required=True)
    ren_p.add_argument("--format", default="text", choices=["text", "csv"])
    return parser


def _load_situation_db(path: str) -> SituationDb:
    db = SituationDb()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f for f in RECORD_FIELDS[:5]
                                         if f not in reader.fieldnames]:
            raise SituationValidationError(
                "header", f"situation db CSV needs columns {RECORD_FIELDS[:5]}")
        for row in reader:
            line = f"line {reader.line_num}"
            # a short row reads its missing fields as None, a long one keeps
            # the extra fields under the key None
            if None in row or None in row.values():
                raise SituationValidationError(
                    line, f"row does not have the header's {len(reader.fieldnames)} fields")
            try:
                record = SituationRecord(
                    latitude=float(row["latitude"]), longitude=float(row["longitude"]),
                    situation=row["situation"], timestamp=row["timestamp"],
                    short_message=row["short_message"],
                    long_message=row.get("long_message") or "",
                    ontology=row.get("ontology") or "")
            except ValueError as exc:  # a bad number or a SituationValidationError
                raise SituationValidationError(line, str(exc)) from exc
            db.upsert(record)
    return db


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            check_runnable(load_scenario(args.scenario), experiment_names(args.experiment))
        except ScenarioError as exc:
            print(f"invalid scenario: {exc}", file=sys.stderr)
            return 1
        print("scenario ok")
        return 0
    if args.command == "run":
        try:
            reports = run_experiment(load_scenario(args.scenario), args.experiment,
                                     seed=args.seed, replications=args.replications,
                                     out_dir=args.out)
        except ScenarioError as exc:
            print(f"invalid scenario: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 2
        for report in reports:
            print(f"{report.experiment}: {len(report.rows)} rows, "
                  f"{len(report.errors)} failed replications -> {args.out}")
        failed = [(r.experiment, e) for r in reports for e in r.errors]
        if failed:
            experiment, first = failed[0]
            print(f"{len(failed)} replications failed; first ({experiment}, "
                  f"{first['error_type']}): {json.dumps(first, sort_keys=True)}",
                  file=sys.stderr)
            return 2
        return 0
    if args.command == "render-situation":
        try:
            db = _load_situation_db(args.db)
        except (OSError, ValueError) as exc:
            print(f"cannot load situation db: {exc}", file=sys.stderr)
            return 1
        text = situation_table_text(db) if args.format == "text" else situation_table_csv(db)
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
