import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example(capsys):
    # the first python block under "## Library" runs against the public API
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "certified-noncover 3/4 (3, 0)\n"
