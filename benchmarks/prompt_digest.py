"""Prompt-text oracle: hash every planner prompt of the 90-run campaign.

The surrogate decides from features, so the prompt text never reaches
``results/evaluation.txt`` and the report oracle cannot see a changed
character in it.  This script forces every prompt of the serial paper
campaign (6 scenarios x 15 seeds, run in this process), hashes them and
compares with the committed digest.

Scheme: sha256 over each prompt's UTF-8 bytes followed by ``b"\\0"``, in
run order.  Ghost-obstacle ids come from a process-wide counter and appear
in the text, so run it in a fresh interpreter::

    PYTHONPATH=src python benchmarks/prompt_digest.py

Prints ``<count> <sha256>``; exits 1 unless both match the expected values.
"""

from __future__ import annotations

import hashlib
import sys

from repro.experiments import runner
from repro.llm.planner import LLMPlanner

EXPECTED_PROMPTS = 12717
EXPECTED_DIGEST = "ea3252e3d52c6821f034af11beaabd8575f59ee5853736e9b5ff6f8dfe169eea"


def campaign_prompt_digest() -> "tuple[int, str]":
    """Run the serial campaign, reading each ``PlanOutput.prompt`` as it is planned."""
    digest = hashlib.sha256()
    count = 0
    real_plan = LLMPlanner.plan

    def plan(self, *args, **kwargs):
        nonlocal count
        output = real_plan(self, *args, **kwargs)
        digest.update(output.prompt.text.encode("utf-8"))
        digest.update(b"\0")
        count += 1
        return output

    LLMPlanner.plan = plan
    try:
        runner.run_evaluation(jobs=1)
    finally:
        LLMPlanner.plan = real_plan
    return count, digest.hexdigest()


def main() -> int:
    count, digest = campaign_prompt_digest()
    print(count, digest)
    if (count, digest) != (EXPECTED_PROMPTS, EXPECTED_DIGEST):
        print(
            f"prompt oracle mismatch: expected {EXPECTED_PROMPTS} {EXPECTED_DIGEST}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
