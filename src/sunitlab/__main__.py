from .cli_report import console_main

console_main()
