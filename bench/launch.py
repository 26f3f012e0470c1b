"""Run one CLI command with the benchmark's span wrappers installed.

Usage: python bench/launch.py SPANS_JSON -- CLI_ARGS...

Times the import of ``rsa_metaphor.cli``, installs the wrappers from
``spans.TARGETS``, calls ``rsa_metaphor.cli.main`` with CLI_ARGS and, when
the command ends, writes the spans and the count of warnings raised in
``rsa_metaphor/metrics.py`` to SPANS_JSON.  It exits with the command's
status.  The package
must be importable (the checkout's ``src`` on ``PYTHONPATH``).
"""

import json
import sys
import warnings

import spans


def main(argv):
    out_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: launch.py SPANS_JSON -- CLI_ARGS...")
    recorder = spans.Recorder()
    with recorder.span("cli.import"):
        import rsa_metaphor.cli as cli
        import rsa_metaphor.metrics as metrics
    restore = recorder.install()
    code = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with recorder.span("cli.command"):
                cli.main(cli_args, prog_name="rsa-metaphor")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            restore()
    spans.reemit_once(caught)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "spans": recorder.spans,
            "warnings": spans.count_warnings_from(caught, metrics.__file__),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
