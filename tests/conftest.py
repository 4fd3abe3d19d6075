import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the hypothesis tests skip themselves
    pass
else:
    # hypothesis keeps a cache under its home directory even with
    # database=None; a temporary one, removed at exit, keeps a test run
    # from writing into the repository
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
