// Package httpmsg is the required-annotation fixture: type-checked under
// the real httpmsg import path, where hotpathRequired lists
// ReadRequestInto and AppendResponseHead. The first lost its annotation,
// the second was renamed away.
package httpmsg // want "AppendResponseHead, required to be a //phttp:hotpath function, is not declared in phttp/internal/httpmsg"

func ReadRequestInto(dst []byte) []byte { // want "ReadRequestInto is on the per-request path and must be annotated //phttp:hotpath"
	return append(dst, "GET"...)
}

// AppendHead is what AppendResponseHead was renamed to.
//
//phttp:hotpath
func AppendHead(dst []byte) []byte { return append(dst, "HTTP/1.1"...) }
