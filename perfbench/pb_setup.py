"""Set-up probe: how long a fresh process takes to get a session ready.

``python3 pb_setup.py WORKLOAD INPUTS.pkl BASE_DIR`` starts cold, imports
the library, opens the session the workload's ops open (memory-only for
``sweep_cold``; over a new store and paged catalog under ``BASE_DIR``
for ``store_roundtrip``), registers the pickled inputs, closes the
session and prints ``ready``.  The benchmark times it from process start
to that line.
"""

from __future__ import annotations

import os
import pickle
import sys


def main(argv: list[str]) -> int:
    workload, inputs_path, base = argv
    import pb_inputs
    from repro import Session

    with open(inputs_path, "rb") as f:
        inputs = pickle.load(f)
    if workload == "store_roundtrip":
        session = Session(store_path=os.path.join(base, "store"),
                          db_path=os.path.join(base, "db"))
    else:
        session = Session()
    with session:
        pb_inputs.register(session, inputs)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
