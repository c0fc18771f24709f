"""A session worker process: runs the experiments one session hands it.

:func:`~repro.bench.parallel.run_session` starts each worker as
``python -m repro.bench.worker FD`` and reaps it before it returns.  The
worker reads pickled :class:`~repro.bench.parallel._Task` values from its
stdin until EOF and answers each one on the pipe ``FD`` with one pickled
``(ok, value)`` pair: ``(True, payload)`` for a result payload, or
``(False, (traceback text, error))`` for a failure, where ``error`` is the
:class:`~repro.errors.ConfigurationError` itself (the session re-raises
it, as a serial run would) or ``None``.  Its stdout and stderr are the
session's, and it prints nothing of its own.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback

from repro.bench.parallel import _compute
from repro.errors import ConfigurationError


def main(argv) -> int:
    tasks = sys.stdin.buffer
    with os.fdopen(int(argv[1]), "wb") as answers:
        while True:
            try:
                task = pickle.load(tasks)
            except EOFError:
                return 0
            try:
                answer = (True, _compute(task))
            except Exception as exc:
                error = exc if isinstance(exc, ConfigurationError) else None
                answer = (False, (traceback.format_exc(), error))
            pickle.dump(answer, answers, pickle.HIGHEST_PROTOCOL)
            answers.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
