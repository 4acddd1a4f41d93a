"""Small pass/fail report containers used by the verification suites."""


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

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

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
