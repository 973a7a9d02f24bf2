"""Capture a wall with the checkout on ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python -m tests.walls capture WALL --out F [--full]

An unchanged model writes the golden's own bytes (``cmp F`` against it).
"""

import argparse
from pathlib import Path

from .harness import WALLS, wall


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m tests.walls")
    commands = parser.add_subparsers(dest="command", required=True)
    capture = commands.add_parser("capture", help="write what this "
                                  "checkout produces for one wall")
    capture.add_argument("wall", choices=WALLS)
    capture.add_argument("--out", type=Path, required=True)
    capture.add_argument("--full", action="store_true",
                         help="write long logs whole, not pinned")
    args = parser.parse_args()
    chosen = wall(args.wall)
    if args.full and chosen.capture_full is None:
        parser.error(f"{args.wall} pins no long logs: it has no --full")
    args.out.write_text(chosen.dumps(chosen.document(full=args.full)))


main()
