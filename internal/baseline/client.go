package baseline

import (
	"repro/internal/netsim"
	"repro/internal/token"
)

// Client is a text-completion client talking to a Server across a
// simulated network link — the prompt-serving deployment shape whose
// boundary-crossing costs §2.2 quantifies. Every call pays serialization
// and propagation for the full prompt and the full response; a
// conversational application therefore re-ships (and the server
// re-prefills) its entire growing context each round.
type Client struct {
	link *netsim.Link
	srv  Server
}

// NewClient returns a client for srv over link.
func NewClient(link *netsim.Link, srv Server) *Client {
	return &Client{link: link, srv: srv}
}

// approxBytesPerToken is the average wire size of a token of text.
const approxBytesPerToken = 4

// CompleteTokens sends a tokenized prompt and returns the server's
// response, charging network time in both directions at the average text
// size per token. Call from a simclock actor.
func (c *Client) CompleteTokens(prompt []token.ID, maxTokens int) (Response, error) {
	if err := c.link.OneWay(len(prompt) * approxBytesPerToken); err != nil {
		return Response{}, err
	}
	resp, err := c.srv.Complete(Request{Prompt: prompt, MaxTokens: maxTokens})
	if err != nil {
		return Response{}, err
	}
	if err := c.link.OneWay(len(resp.Tokens) * approxBytesPerToken); err != nil {
		return Response{}, err
	}
	return resp, nil
}
