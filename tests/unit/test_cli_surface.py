"""The CLI's option census: every parser's options, pinned.

For each parser of ``build_parser()`` (the root, 14 commands, ``serve``
and its four roles, keyed by their command path) the census lists every
option but ``--help`` in declaration order, as one line each: its option
strings (or ``<positional>``), ``dest``, default, type, choices, ``nargs``,
``required`` and action class.  A field at argparse's own default (None,
or False for ``required``) is left out of the line.  Adding, removing or
renaming a flag, or changing its default, fails here.
"""

import argparse

from repro.cli import build_parser


def describe(action: argparse.Action) -> str:
    """One option as one line of the census."""
    parts = [" ".join(action.option_strings) or "<positional>", f"dest={action.dest}"]
    if action.default is not None:
        parts.append(f"default={action.default!r}")
    if action.type is not None:
        parts.append(f"type={action.type.__name__}")
    if action.choices is not None:
        parts.append(f"choices={tuple(action.choices)!r}")
    if action.nargs is not None:
        parts.append(f"nargs={action.nargs}")
    if action.required:
        parts.append("required")
    parts.append(type(action).__name__.strip("_").replace("Action", "").lower())
    return " ".join(parts)


def census(parser: argparse.ArgumentParser, path=()) -> dict:
    """``{command path: [option line, ...]}`` of ``parser`` and every parser
    below it; a mutually exclusive group adds one ``group`` line."""
    lines, children = [], []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            children.extend(action.choices.items())
        elif not isinstance(action, argparse._HelpAction):
            lines.append(describe(action))
    for group in parser._mutually_exclusive_groups:
        members = " ".join(a.option_strings[0] for a in group._group_actions)
        lines.append(f"group {members}" + (" required" if group.required else ""))
    found = {" ".join(path): lines}
    for name, child in children:
        found.update(census(child, (*path, name)))
    return found


CENSUS = {
    "": [
        "--version dest=version default='==SUPPRESS==' nargs=0 version",
    ],
    "synth": [
        "--out-dir dest=out_dir default='data' store",
        "--seed dest=seed default=1999 type=int store",
        "--query-seed dest=query_seed default=42 type=int store",
        "--n-queries dest=n_queries default=6234 type=int store",
    ],
    "represent": [
        "--collection dest=collection required store",
        "--out dest=out required store",
    ],
    "estimate": [
        "--collection dest=collection required store",
        "--representative dest=representative store",
        "--query dest=query required store",
        "--threshold dest=threshold default=0.2 type=float store",
        "--method dest=method default='subrange' store",
    ],
    "evaluate": [
        "--database dest=database default=['D1'] choices=('D1', 'D2', 'D3') nargs=+ "
        "store",
        "--queries dest=queries default=6234 type=int store",
        "--methods dest=methods default=['gloss-hc', 'prev', 'subrange'] nargs=+ store",
        "--seed dest=seed default=1999 type=int store",
        "--query-seed dest=query_seed default=42 type=int store",
    ],
    "convert-rep": [
        "<positional> dest=input required store",
        "<positional> dest=output required store",
    ],
    "rep-diff": [
        "<positional> dest=old required store",
        "<positional> dest=new required store",
        "--from-version dest=from_version default=0 type=int store",
        "--to-version dest=to_version default=1 type=int store",
        "--limit dest=limit default=20 type=int store",
        "--out dest=out store",
    ],
    "analyze": [
        "--collection dest=collection required store",
    ],
    "allocate": [
        "--representatives dest=representatives nargs=+ required store",
        "--query dest=query required store",
        "-k dest=k default=10 type=int store",
    ],
    "import-trec": [
        "<positional> dest=files nargs=+ required store",
        "--name dest=name required store",
        "--out dest=out required store",
        "--limit dest=limit type=int store",
    ],
    "fleet": [
        "--groups dest=groups default=16 type=int store",
        "--queries dest=queries default=100 type=int store",
        "--threshold dest=threshold default=0.3 type=float store",
        "--workers dest=workers default=8 type=int store",
        "--timeout dest=timeout type=float store",
        "--retries dest=retries default=0 type=int store",
        "--cache-size dest=cache_size default=1024 type=int store",
        "--scale dest=scale default='small' choices=('small', 'paper') store",
        "--hang-engines dest=hang_engines default=0 type=int store",
        "--hang-seconds dest=hang_seconds default=5.0 type=float store",
        "--seed dest=seed default=1999 type=int store",
        "--query-seed dest=query_seed default=42 type=int store",
    ],
    "stats": [
        "--groups dest=groups default=6 type=int store",
        "--queries dest=queries default=25 type=int store",
        "--threshold dest=threshold default=0.3 type=float store",
        "--workers dest=workers default=4 type=int store",
        "--timeout dest=timeout type=float store",
        "--retries dest=retries default=0 type=int store",
        "--cache-size dest=cache_size default=1024 type=int store",
        "--format dest=format default='json' choices=('json', 'prometheus') store",
        "--out dest=out store",
        "--show-trace dest=show_trace default=False nargs=0 storetrue",
        "--seed dest=seed default=1999 type=int store",
        "--query-seed dest=query_seed default=42 type=int store",
    ],
    "batch": [
        "--groups dest=groups default=8 type=int store",
        "--queries dest=queries default=200 type=int store",
        "--threshold dest=threshold default=0.3 type=float store",
        "--mode dest=mode default='estimate' choices=('estimate', 'search') store",
        "--cache-size dest=cache_size default=1024 type=int store",
        "--compare-serial dest=compare_serial default=False nargs=0 storetrue",
        "--scale dest=scale default='small' choices=('small', 'paper') store",
        "--seed dest=seed default=1999 type=int store",
        "--query-seed dest=query_seed default=42 type=int store",
    ],
    "serve": [
    ],
    "serve engine": [
        "--collection dest=collection store",
        "--index dest=index store",
        "--live dest=live default=False nargs=0 storetrue",
        "--host dest=host default='127.0.0.1' store",
        "--port dest=port default=0 type=int store",
        "--default-deadline dest=default_deadline type=float store",
        "--drain-timeout dest=drain_timeout default=30.0 type=float store",
        "--metrics-out dest=metrics_out store",
        "group --collection --index required",
    ],
    "serve gateway": [
        "--engines dest=engines nargs=+ store",
        "--collections dest=collections nargs=+ store",
        "--quantize dest=quantize type=int store",
        "--engine-timeout dest=engine_timeout default=10.0 type=float store",
        "--workers dest=workers default=8 type=int store",
        "--timeout dest=timeout type=float store",
        "--retries dest=retries default=0 type=int store",
        "--cache-size dest=cache_size default=1024 type=int store",
        "--max-active dest=max_active default=8 type=int store",
        "--max-queued dest=max_queued default=32 type=int store",
        "--max-queue-wait dest=max_queue_wait default=5.0 type=float store",
        "--retry-after dest=retry_after default=1.0 type=float store",
        "--coalesce-window-ms dest=coalesce_window_ms default=0.0 type=float store",
        "--coalesce-max-batch dest=coalesce_max_batch default=64 type=int store",
        "--host dest=host default='127.0.0.1' store",
        "--port dest=port default=0 type=int store",
        "--default-deadline dest=default_deadline type=float store",
        "--drain-timeout dest=drain_timeout default=30.0 type=float store",
        "--metrics-out dest=metrics_out store",
    ],
    "serve shard": [
        "--collections dest=collections nargs=+ store",
        "--slice dest=slice store",
        "--shard-index dest=shard_index default=0 type=int store",
        "--workers dest=workers default=4 type=int store",
        "--timeout dest=timeout type=float store",
        "--retries dest=retries default=0 type=int store",
        "--cache-size dest=cache_size default=1024 type=int store",
        "--host dest=host default='127.0.0.1' store",
        "--port dest=port default=0 type=int store",
        "--default-deadline dest=default_deadline type=float store",
        "--drain-timeout dest=drain_timeout default=30.0 type=float store",
        "--metrics-out dest=metrics_out store",
    ],
    "serve coordinator": [
        "--shards dest=shards type=int store",
        "--collections dest=collections nargs=+ store",
        "--shard-urls dest=shard_urls nargs=+ store",
        "--timeout dest=timeout type=float store",
        "--retries dest=retries default=0 type=int store",
        "--shard-timeout dest=shard_timeout default=30.0 type=float store",
        "--attach-timeout dest=attach_timeout default=30.0 type=float store",
        "--max-active dest=max_active default=8 type=int store",
        "--max-queued dest=max_queued default=32 type=int store",
        "--max-queue-wait dest=max_queue_wait default=5.0 type=float store",
        "--retry-after dest=retry_after default=1.0 type=float store",
        "--coalesce-window-ms dest=coalesce_window_ms default=0.0 type=float store",
        "--coalesce-max-batch dest=coalesce_max_batch default=64 type=int store",
        "--host dest=host default='127.0.0.1' store",
        "--port dest=port default=0 type=int store",
        "--default-deadline dest=default_deadline type=float store",
        "--drain-timeout dest=drain_timeout default=30.0 type=float store",
        "--metrics-out dest=metrics_out store",
    ],
    "eval": [
        "--config dest=config default='columnar' choices=('columnar', 'sharded', "
        "'delta') store",
        "--estimators dest=estimators default=['basic', 'binary-independence', "
        "'gloss-hc', 'gloss-disjoint', 'subrange'] nargs=+ store",
        "--golden-dir dest=golden_dir default='tests/integration/golden/queries' store",
        "--out-dir dest=out_dir default='results' store",
        "--seed dest=seed type=int store",
        "--engines dest=engines type=int store",
        "--shards dest=shards default=2 type=int store",
        "--write-golden dest=write_golden default=False nargs=0 storetrue",
        "--check-floors dest=check_floors store",
    ],
    "scalability": [
        "--synthetic dest=synthetic default=False nargs=0 storetrue",
        "--seed dest=seed default=1999 type=int store",
    ],
}


def test_every_parser_declares_the_pinned_options():
    assert census(build_parser()) == CENSUS


def test_the_census_names_every_parser_in_order():
    """The root, 14 commands, ``serve`` and its four roles, in the order
    ``--help`` lists them."""
    assert list(census(build_parser())) == list(CENSUS)
    assert len(CENSUS) == 20
