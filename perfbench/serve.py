"""Launch the verification service for the service-mix workload.

Calls :func:`repro.core.service.main` directly: ``python -m
repro.core.service`` re-executes a module that ``repro.core`` has
already imported, which makes runpy print a ``RuntimeWarning``.

    PYTHONPATH=src python3 perfbench/serve.py --port 0 --cache-dir DIR
"""

from repro.core.service import main

if __name__ == "__main__":
    main()
