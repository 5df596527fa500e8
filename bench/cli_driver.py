"""Run one ``ofbmkit.cli`` command with the span recorder installed.

    python bench/cli_driver.py SPANS.json COMMAND [ARGS...]

Records the package import and the command as spans, runs
``ofbmkit.cli.main([COMMAND, ARGS...])``, writes the spans to SPANS.json and
exits with the command's exit code.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import ofbmkit.cli

    t1 = time.perf_counter()
    from spans import Recorder

    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.record("cli.import", t0, t1, op=argv[0])
    rec.install()
    rec.set_op(argv[0])
    code = rec.wrap(f"cli.{argv[0]}", ofbmkit.cli.main)(argv)
    rec.uninstall()
    rec.dump(out)
    sys.exit(code)
