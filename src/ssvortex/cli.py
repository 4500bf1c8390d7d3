"""Command-line runner: parse a run configuration, execute suites, emit artifacts.

Usage:
    ssvortex <verify|resolvent|semigroup|spectrum|shoot|all> [--config FILE] [--out DIR]

The config file is a flat list of `key = value` lines (# starts a comment).
Values are parsed as int, float, complex, or comma-separated lists thereof; a
value in matching quotes is one literal string, `#` and `,` included.
The subcommand picks the suites, the file sets every other run input, and
`--out` overrides the file's `out`.  Exit codes: 0 all suites passed,
1 at least one check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .params import _number
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
# file keys: the run inputs of RunConfig but the suites, with `out` for `out_dir`
# and `workers`, which build_config alone reads
_CONFIG_KEYS = _PARAM_KEYS | {"out", "workers"} | {
    f.name for f in fields(RunConfig) if f.name not in ("params", "out_dir", "suites")
}


class ConfigError(ValueError):
    pass


def _split_line(text: str) -> list:
    """``text`` up to its first ``#`` outside quotes, cut at every ``,`` outside
    quotes; an unclosed quote raises ConfigError."""
    parts, start, quote = [], 0, None
    for i, ch in enumerate(text):
        if quote:
            quote = None if ch == quote else quote
        elif ch in "'\"":
            quote = ch
        elif ch in ",#":
            parts.append(text[start:i])
            start = i + 1
            if ch == "#":
                return parts
    if quote:
        raise ConfigError(f"unbalanced {quote} quote")
    parts.append(text[start:])
    return parts


def _parse_scalar(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0] and text[0] not in text[1:-1]:
        return text[1:-1]
    if "'" in text or '"' in text:
        raise ConfigError(f"a quote must open and close a whole value, got {text!r}")
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_config_file(path: str) -> dict:
    """Parse `key = value` lines into a config dict, with line-precise errors.
    The file is read as UTF-8, and each key may be set once."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out = {}
    set_on = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            parts = _split_line(raw)
            if len(parts) == 1 and not parts[0].strip():
                continue
            key, eq, first = parts[0].partition("=")
            key = key.strip()
            if not eq:
                raise ConfigError(f"expected 'key = value', got {raw.strip()!r}")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            if key in set_on:
                raise ConfigError(f"key {key!r} already set on line {set_on[key]}")
            if len(parts) > 1:
                out[key] = tuple(_parse_scalar(v) for v in [first, *parts[1:]] if v.strip())
            elif first.strip().lower() in ("", "none"):
                out[key] = ()
            else:
                out[key] = _parse_scalar(first)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        set_on[key] = lineno
    return out


def build_config(file_values: dict, out, suites) -> RunConfig:
    merged = dict(file_values)
    # the suites run serially; bench/workloads.py still writes `workers = 1`, and
    # ROADMAP item 5 deletes this line together with that one
    if _number("workers", merged.pop("workers", 1), integer=True) != 1:
        raise ConfigError("workers: the only accepted value is 1")
    # a `--out` string, even an empty one, overrides the file's `out`; no
    # `--out` (None, or `{}` from bench/worker.py) keeps it
    if isinstance(out, str):
        merged["out"] = out
    pkw = {key: merged.pop(key) for key in _PARAM_KEYS & merged.keys()}
    params = replace(DEFAULT_PARAMS, **pkw)
    if "out" in merged:
        out_dir = merged.pop("out")
        # an empty or listed `out` would name a directory after a tuple's repr
        if isinstance(out_dir, tuple) or not str(out_dir):
            raise ConfigError(f"out must be one non-empty path, got {out_dir!r}")
        merged["out_dir"] = str(out_dir)
    return RunConfig(params=params, suites=tuple(suites), **merged)


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

    try:
        cfg = build_config(file_values, args.out, _SUBCOMMAND_SUITES[args.command])
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
