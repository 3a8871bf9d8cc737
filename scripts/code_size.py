#!/usr/bin/env python3
"""Print each ptcache module's line count and marshalled code size.

The marshalled size is that of the module's code object compiled from
source, what a ``.pyc`` holds after its 16-byte header.  The code is
compiled under the name ``src/ptcache/<module>.py`` whatever the checkout's
path, since the file name is stored in the code, so two checkouts compare
byte for byte.  A fresh import compiles every module of the package, and
the code it keeps grows with this size.

    python3 scripts/code_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's ``src/ptcache``.
"""

import argparse
import marshal
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ptcache"


def module_sizes(package):
    """(file name, lines, marshalled bytes) per module, by file name."""
    for path in sorted(Path(package).glob("*.py")):
        text = path.read_text()
        code = compile(text, f"src/ptcache/{path.name}", "exec")
        yield path.name, text.count("\n"), len(marshal.dumps(code))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default=PACKAGE, help="package directory")
    args = ap.parse_args(argv)
    rows = list(module_sizes(args.package))
    print(f"{'module':<14}{'lines':>8}{'marshalled':>12}")
    for name, lines, size in rows:
        print(f"{name:<14}{lines:>8,}{size:>12,}")
    total_lines = sum(lines for _, lines, _ in rows)
    print(f"{'total':<14}{total_lines:>8,}{sum(size for *_, size in rows):>12,}")


if __name__ == "__main__":
    main()
