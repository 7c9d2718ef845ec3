// focus_analyze — the repo's static-analysis pipeline. Stages:
// strip -> lex -> parse -> symbols -> dataflow ->
// checkers -> driver; docs/STATIC_ANALYSIS.md documents the checker
// catalog and the allow() escape hatch.
//
// Usage: focus_analyze [--root DIR] [--list-checkers] [paths...]
// Exit status: 0 clean, 1 findings, 2 usage or I/O errors.

#include "analyze/driver.h"

int main(int argc, char** argv) {
  return focus::analyze::AnalyzerMain(argc, argv);
}
