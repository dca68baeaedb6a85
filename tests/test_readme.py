"""The README's library example runs, and each print that carries a trailing
`# ...` comment prints exactly that comment."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_example_prints_what_its_comments_say():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    source = blocks[0]
    printed = []
    exec(compile(source, str(README), "exec"),
         {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    # the example is straight-line code, so its prints run once each, in order
    prints = [line for line in source.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, out in zip(prints, printed):
        if "#" in line:
            assert out == line.split("#", 1)[1].strip(), line
            checked += 1
    assert checked >= 1
