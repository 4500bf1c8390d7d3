"""Command-line runner: parse a run configuration, execute suites, emit artifacts.

Usage:
    ssvortex <verify|resolvent|semigroup|spectrum|shoot|all> [--config FILE] [--out DIR]

The config file is a flat list of `key = value` lines (# starts a comment).
Values are parsed as int, float, complex, or comma-separated lists thereof.
The subcommand picks the suites, the file sets every other run input, and
`--out` overrides the file's `out`.  Exit codes: 0 all suites passed,
1 at least one check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .suites import DEFAULT_PARAMS, SUITES, RunConfig, run

_SUBCOMMAND_SUITES = {
    "verify": ("identities",),
    "resolvent": ("resolvent",),
    "semigroup": ("semigroup",),
    "spectrum": ("spectrum",),
    "shoot": ("shooting",),
    "all": SUITES,
}

_PARAM_KEYS = {"alpha", "beta", "m", "q"}
# file keys: the run inputs of RunConfig, with `out` for `out_dir`
_CONFIG_KEYS = _PARAM_KEYS | {"out"} | {
    f.name for f in fields(RunConfig) if f.name not in ("params", "out_dir")
}


class ConfigError(ValueError):
    pass


def _parse_scalar(text: str):
    text = text.strip()
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip("'\"")


def parse_config_file(path: str) -> dict:
    """Parse `key = value` lines into a config dict, with line-precise errors."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            val = val.strip()
            if val == "" or val.lower() == "none":
                out[key] = ()
            elif "," in val:
                out[key] = tuple(_parse_scalar(v) for v in val.split(",") if v.strip())
            else:
                out[key] = _parse_scalar(val)
    return out


def build_config(file_values: dict, out, suites) -> RunConfig:
    merged = dict(file_values)
    if out:  # no `--out` (None, or `{}` from bench/worker.py) keeps the file's `out`
        merged["out"] = out
    pkw = {key: merged.pop(key) for key in _PARAM_KEYS & merged.keys()}
    params = replace(DEFAULT_PARAMS, **pkw)
    if suites is not None:
        merged["suites"] = tuple(suites)
    if "out" in merged:
        merged["out_dir"] = str(merged.pop("out"))
    return RunConfig(params=params, **merged)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssvortex",
        description="Verification suites for the self-similar power-law vortex mode analysis.",
    )
    parser.add_argument("command", choices=sorted(_SUBCOMMAND_SUITES))
    parser.add_argument("--config", default=None, help="key = value configuration file")
    parser.add_argument("--out", default=None, help="output directory for reports")
    args = parser.parse_args(argv)

    try:
        file_values = parse_config_file(args.config) if args.config else {}
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # `all` runs the file's `suites`, or every suite by default
    suites = None if args.command == "all" else _SUBCOMMAND_SUITES[args.command]
    try:
        cfg = build_config(file_values, args.out, suites)
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
