import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules sit one directory up, next to run.py; the program's
# sources are under src/ at the root of the checkout
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
