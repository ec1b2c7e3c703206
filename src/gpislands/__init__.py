"""Island-model genetic programming over typed expression trees.

A small core -- typed trees, a supervised interpreter, a generational
evolution engine and a lock-step island runtime with anonymous best-effort
migration -- plus two synthetic benchmark tasks (news-feed ranking and
location-provider scheduling) and an experiment harness that writes CSV.
Names are imported from their modules: ``gpislands.harness.run_experiment``.
"""

__version__ = "0.1.0"
