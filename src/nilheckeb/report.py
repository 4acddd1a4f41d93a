"""Small pass/fail report containers used by the verification suites."""

__all__ = ["CheckResult", "SuiteReport"]


class CheckResult:
    """One named check: whether it passed, and an optional detail."""

    def __init__(self, check, passed, detail=""):
        self.check = check
        self.passed = passed
        self.detail = detail

    def to_json(self):
        return {"check": self.check, "pass": self.passed, "detail": self.detail}


class SuiteReport:
    """The checks of one suite, in the order they ran."""

    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    def add(self, check, passed, detail=""):
        self.checks.append(CheckResult(check, bool(passed), detail))
        return self.checks[-1]

    def trials(self, check, count, holds, *draws):
        """Run ``count`` seeded trials of one law and add its verdict.

        Each trial calls ``draws`` in order and passes their results to
        ``holds``, which returns True, False, or None when the input does
        not apply.  Every trial runs, so the random stream a suite consumes
        does not depend on the outcome.  The check passes only when some
        trial applied and every applied trial held.
        """
        verdicts = [holds(*[draw() for draw in draws]) for _ in range(count)]
        applied = [v for v in verdicts if v is not None]
        if not applied:
            return self.add(check, False, "no trial ran")
        return self.add(check, all(applied))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "pass": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def __str__(self):
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] suite {self.suite}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = f"  {mark} {c.check}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        return "\n".join(lines)
