# Convenience targets; CI calls these (see .github/workflows/ci.yml).

.PHONY: test lint race build loc

build:
	go build ./...

test:
	go build ./... && go test ./...

# lint runs the persistence-discipline analyzers (internal/lint) over
# every package, then fails on any file gofmt would rewrite.
lint:
	go run ./cmd/persistlint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

race:
	go test -race -short ./...
	go test -race -count=1 ./internal/history ./internal/ingress

# loc prints the non-blank, non-comment source line count outside bench/,
# tests and lint fixtures: the number simplification PRs are measured by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './internal/lint/testdata/*' -print0 | xargs -0 cat | grep -vcE '^\s*(//|$$)'
