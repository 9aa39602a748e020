"""Output checks computed from the benchmark's own label arrays.

No check here calls the library: the expected answers follow from the
labels the generator chose and the relabels the benchmark applied.
Each check returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

from typing import Optional, Sequence


class TrackedLabels:
    """Label of every vertex of the input, updated as the benchmark relabels.

    The input forest is ``copies`` side-by-side copies of a base forest, so
    vertex k starts with the label of base vertex k mod |base|.
    """

    def __init__(self, base: Sequence[str], copies: int = 1):
        self.base = list(base)
        self.copies = copies
        self.overrides: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.base) * self.copies

    def __getitem__(self, k: int) -> str:
        label = self.overrides.get(k)
        return self.base[k % len(self.base)] if label is None else label

    def __setitem__(self, k: int, label: str) -> None:
        self.overrides[k] = label

    def copy(self) -> "TrackedLabels":
        out = TrackedLabels(self.base, self.copies)
        out.overrides = dict(self.overrides)
        return out

    def count_b(self) -> int:
        count = self.base.count("b") * self.copies
        for k, label in self.overrides.items():
            count += (label == "b") - (self.base[k % len(self.base)] == "b")
        return count

    def b_vertices(self) -> list[int]:
        """Sorted ``b`` vertices; linear in the forest size."""
        return [k for k in range(len(self)) if self[k] == "b"]


# Queries: "one_b" answers are the singletons {k} of b vertices, "all_b" has
# the single answer "every b vertex".

def expected_answer_count(query: str, labels: TrackedLabels) -> int:
    return labels.count_b() if query == "one_b" else 1


def check_answer(query: str, answer: Sequence[int], labels: TrackedLabels, seen: set) -> Optional[str]:
    """One answer of a stream; ``seen`` collects earlier answers of the same stream."""
    if query == "one_b":
        if len(answer) != 1:
            return f"answer {list(answer)[:5]} is not a singleton"
        k = answer[0]
        if not (0 <= k < len(labels)) or labels[k] != "b":
            return f"answer {{{k}}} is not a b vertex"
        if k in seen:
            return f"answer {{{k}}} repeats"
        seen.add(k)
        return None
    if seen:
        return "the select-b query has a second answer"
    seen.add(0)
    if sorted(answer) != labels.b_vertices():
        return f"answer of {len(answer)} vertices differs from the {labels.count_b()} b vertices"
    return None


def check_full_stream(query: str, answers: list, labels: TrackedLabels) -> Optional[str]:
    """A stream read to its end holds exactly the expected answers."""
    seen: set = set()
    for ans in answers:
        err = check_answer(query, ans, labels, seen)
        if err:
            return err
    if len(answers) != expected_answer_count(query, labels):
        return f"stream ended after {len(answers)} answers, expected {expected_answer_count(query, labels)}"
    return None


def check_cli_output(query: str, text: str, labels: TrackedLabels, expected_lines: int) -> Optional[str]:
    """``fslpenum enumerate`` output: one sorted answer per line, then EOE."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "output does not end with a newline"
    lines.pop()
    if not lines or lines[-1] != "EOE":
        return "output does not end with EOE"
    lines.pop()
    if len(lines) != expected_lines:
        return f"{len(lines)} answer lines, expected {expected_lines}"
    seen: set = set()
    for line in lines:
        try:
            answer = [] if line == "-" else [int(x) for x in line.split()]
        except ValueError:
            return f"line {line[:40]!r} is not an answer"
        if answer != sorted(answer):
            return f"line {line[:40]!r} is not sorted"
        err = check_answer(query, answer, labels, seen)
        if err:
            return err
    return None
