import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# every property runs the same examples on every run and machine, with no
# time limit per example and no example database; each test sets only its
# max_examples
settings.register_profile("heaviforge", deadline=None, derandomize=True, database=None)
settings.load_profile("heaviforge")
