"""README.md's backticked references into the package resolve by import."""

import importlib
import pkgutil
import re
from pathlib import Path

import xsrank

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(xsrank.__path__)}
FILE_SUFFIXES = (".csv", ".json", ".svg", ".md", ".py", ".txt")


def test_every_backticked_package_attribute_in_the_readme_resolves():
    # `tensor.TOPK_BLOCK_CELLS`, `data.trading_dates(start, count)` and
    # `xsrank.tensor` name package code; `backtest.csv` names a file
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    checked, missing = set(), []
    for span in re.findall(r"`([^`]*)`", text):
        ref = re.match(r"(?:xsrank\.)?([a-z_]+)((?:\.[A-Za-z_]\w*)*)", span)
        if (ref is None or ref.group(1) not in MODULES or ref.group(0).endswith(FILE_SUFFIXES)
                or not (ref.group(2) or span.startswith("xsrank."))):
            continue
        obj = importlib.import_module(f"xsrank.{ref.group(1)}")
        for name in ref.group(2).split(".")[1:]:
            if not hasattr(obj, name):
                missing.append(ref.group(0))
                break
            obj = getattr(obj, name)
        checked.add(ref.group(0))
    assert len(checked) >= 10, checked
    assert not missing, missing
