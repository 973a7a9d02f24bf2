"""The parent-captured walls: one harness (:mod:`.harness`), one module
per wall, one capture command (``python -m tests.walls``)."""
