"""`python3 -m palcore.cli ARGS...` with the speed sampler of calibrate.py.

    python3 perfbench/cli_sampled.py SPEED_JSON ARGS...

Runs the palcore CLI as `-m` does, in this process, and writes the
sampler's unit times and handler seconds to SPEED_JSON when it exits,
whatever the exit code.
"""
import json
import runpy
import sys

import calibrate

speed_path = sys.argv[1]
sys.argv = ["palcore"] + sys.argv[2:]
sampler = calibrate.Sampler()
sampler.start()
try:
    runpy.run_module("palcore.cli", run_name="__main__", alter_sys=True)
finally:
    sampler.stop()
    with open(speed_path, "w", encoding="utf-8") as fh:
        json.dump(sampler.to_json(), fh)
