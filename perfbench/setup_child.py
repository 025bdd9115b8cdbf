"""Time polekit's set-up in a fresh interpreter: import the package and
parse one scene file.  Prints {"setup_s": seconds} as JSON.

Usage: python3 perfbench/setup_child.py SRC_DIR SCENE_FILE
"""

import json
import sys
import time


def main(src_dir, scene_file):
    t0 = time.perf_counter()
    sys.path.insert(0, src_dir)
    from polekit.scene import parse_scene

    with open(scene_file) as fh:
        parse_scene(fh.read())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
