"""Support modules of sweepbench/run.py."""
