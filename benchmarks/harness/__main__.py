from benchmarks.harness.cli import main

raise SystemExit(main())
